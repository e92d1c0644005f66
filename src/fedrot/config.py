"""The experiment schema: the config dataclasses, their rules, and the
experiment-file loader.

The on-disk dialect is YAML: an ``experiment`` mapping that corresponds
field-for-field to :class:`FederationConfig` (with nested ``reference``
and ``task`` mappings), plus an optional ``sweep`` mapping holding a
parameter ``grid`` and a ``seeds`` list.  The dataclass fields are the
schema: their annotations type each value, the fields without a default
are required, and their metadata names the file keys that differ from the
field names, the keys a grid may vary and the task kinds that read a key.
The loader only converts values by annotation; the config constructors and
:func:`sweep_cells` check them.  Every rejection, a bad key's included, is
reported with its line and column, and a key that is unknown, repeated or
not read by the task kind before any value.
"""

from __future__ import annotations

import enum
import functools
import io
import math
import numbers
import re
import types
import typing
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass, replace

import yaml

from .aggregation import Strategy
from .alignment import ReferenceKind, ScheduleAblation
from .errors import ConfigError, UsageError
from .tasks import DEFAULT_SCALAR_TARGETS, TaskKind

__all__ = [
    "MAX_FOOTPRINT", "ReferenceMode", "TaskSpec", "FederationConfig", "SweepCell",
    "ExperimentFile", "apply_overrides", "sweep_cells", "load_config", "config_to_dict",
]

# The most float64 entries a run may hold (2 GiB); see FederationConfig.
MAX_FOOTPRINT = 2**28

# Field metadata of the config dataclasses: ``key`` is the file key where it
# differs from the field name, ``sweep`` marks the keys a sweep grid may
# vary, ``kinds`` names the task kinds that read a field (every kind, if
# absent), and ``range`` holds the inclusive bounds of a number.
_SWEEP = {"sweep": True}
_POSITIVE = {"range": (1, math.inf)}
_NONNEGATIVE = {"range": (0, math.inf)}
_SCALAR = {"kinds": (TaskKind.SCALAR_TOY,)}
_REGRESSION = {"kinds": (TaskKind.LOWRANK_REGRESSION,)}
_LOGISTIC = {"kinds": (TaskKind.LOGISTIC,)}
_SAMPLED = {"kinds": (TaskKind.LOWRANK_REGRESSION, TaskKind.LOGISTIC)}


def file_key(f: Field) -> str:
    """The experiment-file key of a config dataclass field."""
    return f.metadata.get("key", f.name)


@functools.cache
def _schema(cls) -> dict[str, tuple[Field, object]]:
    """File key -> (field, resolved annotation) of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {file_key(f): (f, hints[f.name]) for f in fields(cls)}


_NUMBERS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def check_fields(config, prefix: str = "") -> None:
    """Check each field of the config dataclass ``config`` against its
    annotation and then its ``range``, under its file key after ``prefix``."""
    for key, (f, tp) in _schema(type(config)).items():
        key, value = prefix + key, getattr(config, f.name)
        _check_value(key, value, tp)
        if "range" in f.metadata and value is not None:
            low, high = f.metadata["range"]
            if not low <= value <= high:
                bound = f"be >= {low}" if high == math.inf else f"lie in [{low}, {high}]"
                raise UsageError(f"{key} must {bound}, got {value}", key=key)


def _check_value(key: str, value, tp) -> None:
    """Reject ``value``, set as the file key ``key``, unless it is of the
    annotated type ``tp``: ``int`` takes any ``numbers.Integral``, ``float``
    any ``numbers.Real`` that is finite as a float, a bool neither, a tuple
    its elements' types and any other type its instances; an enum's message
    lists its values.  No value is converted."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:  # ``T | None``
        if value is not None:
            _check_value(key, value, args[0])
        return
    if typing.get_origin(tp) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, tuple) or not (variadic or len(value) == len(args)):
            size = "" if variadic else f" of {len(args)} values"
            raise UsageError(f"{key} must be a tuple{size}, got {value!r}", key=key)
        elements = args[:1] * len(value) if variadic else args
        for i, (v, t) in enumerate(zip(value, elements)):
            _check_value(f"{key}.{i}", v, t)
        return
    kind, what = _NUMBERS.get(tp, (tp, f"a {tp.__name__}"))
    if issubclass(tp, enum.Enum):
        what += f" (one of: {', '.join(m.value for m in tp)})"
    if not isinstance(value, kind) or (tp in _NUMBERS and isinstance(value, bool)):
        raise UsageError(f"{key} must be {what}, got {value!r}", key=key)
    if tp is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise UsageError(f"{key} is out of range", key=key) from None
        if not finite:
            raise UsageError(f"{key} must be finite, got {value}", key=key)
    if is_dataclass(tp):
        check_fields(value, f"{key}.")


def reads(kind: TaskKind, f: Field) -> bool:
    """Whether a task of kind ``kind`` reads the config field ``f``."""
    return kind in f.metadata.get("kinds", (kind,))


def check_read(kind: TaskKind, key: str, f: Field) -> None:
    """Reject the field ``f``, set as the file key ``key``, unless ``kind`` reads it."""
    if not reads(kind, f):
        readers = ", ".join(k.value for k in f.metadata["kinds"])
        message = f"{key} is not read by a {kind.value} task (read by: {readers})"
        raise UsageError(message, key=key)


@dataclass(frozen=True)
class ReferenceMode:
    kind: ReferenceKind = ReferenceKind.PREV_GLOBAL
    lag: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.kind is ReferenceKind.OLDER_GLOBAL and self.lag < 2:
            raise UsageError(
                f"older-global reference requires lag >= 2, got {self.lag}", key="lag"
            )
        if self.kind is not ReferenceKind.OLDER_GLOBAL and self.lag != 0:
            raise UsageError(
                f"{self.kind.value} reference takes no lag, got {self.lag}", key="lag"
            )


@dataclass(frozen=True)
class TaskSpec:
    kind: TaskKind
    targets: tuple[float, ...] = field(default=DEFAULT_SCALAR_TARGETS, metadata=_SCALAR)
    true_rank: int = field(default=1, metadata=_REGRESSION | _SWEEP)
    heterogeneity: float = field(default=0.0, metadata=_REGRESSION | _SWEEP | _NONNEGATIVE)
    n_features: int = field(default=8, metadata=_LOGISTIC)
    n_classes: int = field(default=4, metadata=_LOGISTIC | {"range": (2, math.inf)})
    n_samples: int = field(default=200, metadata=_SAMPLED | _NONNEGATIVE)


@dataclass(frozen=True)
class FederationConfig:
    strategy: Strategy = field(metadata=_SWEEP)
    n_clients: int = field(metadata=_SWEEP | _POSITIVE)
    rank: int = field(metadata=_SWEEP)
    dims: tuple[int, int]
    rounds: int = field(metadata=_SWEEP | _POSITIVE)
    local_steps: int = field(metadata=_SWEEP | _POSITIVE)
    learning_rate: float = field(metadata=_SWEEP | _NONNEGATIVE)
    lam: float = field(default=0.0, metadata=_SWEEP | {"key": "lambda", "range": (0, 1)})
    reference_mode: ReferenceMode = field(
        default=ReferenceMode(), metadata={"key": "reference"}
    )
    schedule: ScheduleAblation = field(
        default=ScheduleAblation.ALTERNATE, metadata=_SWEEP
    )
    task: TaskSpec = TaskSpec(kind=TaskKind.LOWRANK_REGRESSION)
    dirichlet_alpha: float = field(default=0.5, metadata=_LOGISTIC | _SWEEP)
    seed: int = field(default=0, metadata=_NONNEGATIVE)
    align_from_round: int = field(default=2, metadata=_SWEEP | _POSITIVE)
    batch_size: int | None = field(default=None, metadata=_SAMPLED | _SWEEP | _POSITIVE)
    init_a_value: float | None = None

    def __post_init__(self):
        # Types and ranges first: the checks below compare numbers and enum members.
        check_fields(self)
        task = self.task
        if not 1 <= self.rank <= min(self.dims):
            raise UsageError(
                f"rank {self.rank} out of range for dims {self.dims}", key="rank"
            )
        if self.dirichlet_alpha <= 0:  # the one open bound
            raise UsageError("dirichlet_alpha must be > 0", key="dirichlet_alpha")
        # What each task kind requires; the task builders take it as checked.
        if task.kind is TaskKind.SCALAR_TOY:
            if self.dims != (1, 1):
                raise UsageError("scalar toy task requires dims (1, 1)", key="dims")
            if self.n_clients != len(task.targets):
                raise UsageError(
                    f"scalar toy task has {len(task.targets)} targets but config "
                    f"declares {self.n_clients} clients",
                    key="n_clients",
                )
        elif task.kind is TaskKind.LOWRANK_REGRESSION:
            if not 1 <= task.true_rank <= min(self.dims):
                raise UsageError(
                    f"true_rank {task.true_rank} out of range for dims {self.dims}",
                    key="task.true_rank",
                )
        else:
            if task.n_samples < task.n_classes:
                raise UsageError("need at least one sample per class",
                                 key="task.n_samples")
            if self.dims != (task.n_classes, task.n_features):
                raise UsageError(
                    "logistic task requires dims (n_classes, n_features) = "
                    f"({task.n_classes}, {task.n_features}), got {self.dims}",
                    key="dims",
                )
            if task.n_samples < self.n_clients:
                raise UsageError(
                    f"cannot give {self.n_clients} clients non-empty shards from "
                    f"{task.n_samples} samples",
                    key="n_clients",
                )
        # The run's footprint in float64 entries, in Python integers so no
        # product overflows: per client a target and three products (this
        # round's trained and reported ones, and the last round's until it is
        # released), four transient d_out x d_in arrays at the server and in
        # the loss, and the global-adapter history.
        d_out, d_in = self.dims
        sizes = {"n_clients": self.n_clients, "dims.0": d_out, "dims.1": d_in,
                 "rounds": self.rounds}
        footprint = ((4 * self.n_clients + 4) * d_out * d_in
                     + (self.rounds + 1) * (d_out + d_in) * self.rank)
        n = task.n_samples
        if reads(task.kind, _schema(TaskSpec)["n_samples"][0]):
            sizes["task.n_samples"] = n
            # The probes, or the features and the shards' copy, and a batch's copy.
            footprint += 3 * n * d_in
        if task.kind is TaskKind.LOGISTIC:
            # The labels and shard indices, the shards' one-hot label masks (a
            # byte an entry) and a shard's logits twice over in its loss.
            footprint += 2 * n + (n * task.n_classes + 7) // 8 + 2 * n * task.n_classes
        elif task.kind is TaskKind.LOWRANK_REGRESSION and self.batch_size is not None:
            footprint += d_in * d_in  # a mini-batch's x^T x
        if footprint > MAX_FOOTPRINT:
            key = max(sizes, key=sizes.get)  # the largest size
            raise UsageError(
                f"{key} is too large: the run would hold {footprint} float64 entries, "
                f"more than the {MAX_FOOTPRINT} (2 GiB) a run may hold",
                key=key,
            )


def grid_field(config: FederationConfig, key: str) -> tuple[type, Field]:
    """The config dataclass and field that the sweep-grid key ``key`` varies;
    it must be a key a grid may vary and that ``config``'s task kind reads."""
    grid_classes = (FederationConfig, TaskSpec)
    for cls in grid_classes:
        f, _ = _schema(cls).get(key, (None, None))
        if f is not None and f.metadata.get("sweep"):
            check_read(config.task.kind, key, f)
            return cls, f
    allowed = sorted(k for cls in grid_classes for k, (f, _) in _schema(cls).items()
                     if f.metadata.get("sweep"))
    raise UsageError(
        f"unknown sweep parameter {key!r} (allowed: {', '.join(allowed)}; "
        "seeds go in sweep.seeds)",
        key=key,
    )


def apply_overrides(config: FederationConfig, params: dict) -> FederationConfig:
    """``config`` with the overrides ``params`` applied: sweep-grid keys to
    values of their fields' types, a :class:`TaskSpec` field's on the task."""
    plain, task = {}, {}
    for key, value in params.items():
        cls, f = grid_field(config, key)
        (task if cls is TaskSpec else plain)[f.name] = value
    return replace(config, task=replace(config.task, **task), **plain)


@dataclass(eq=False)
class SweepCell:
    params: dict
    seed: int
    config: FederationConfig  # the base config with params and seed applied
    result: RunResult | None = None  # ``federation.RunResult``, diverged runs included
    error: str | None = None  # why the cell failed, divergence included


def _under(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its :class:`UsageError` raised again under ``key``."""
    try:
        return build(*args, **kwargs)
    except UsageError as exc:
        raise UsageError(str(exc), key=key) from exc


def sweep_cells(base: FederationConfig, grid: dict, seeds) -> list[SweepCell]:
    """The cells of the ``grid`` x ``seeds`` product, in ``itertools.product``
    order, each with its finished, and so checked, config.  A key that
    :func:`grid_field` rejects, or one without a non-empty list of values,
    raises under that grid key, a rejected value under
    ``sweep.grid.<key>.<i>`` and a rejected seed under ``sweep.seeds.<i>``."""
    if not grid:
        raise UsageError("sweep grid must contain at least one parameter", key="sweep.grid")
    for key, values in grid.items():
        grid_field(base, key)
        if not isinstance(values, (list, tuple)) or not values:
            raise UsageError(f"sweep parameter {key!r} must be a non-empty list", key=key)
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise UsageError("sweep.seeds must be a non-empty list", key="sweep.seeds")
    # One axis at a time, each value applied to every prefix config: the
    # product order, with a rejected value blamed on the axis that adds it.
    prefixes = [({}, base)]
    for key, values in grid.items():
        prefixes = [
            ({**params, key: value},
             _under(f"sweep.grid.{key}.{i}", apply_overrides, config, {key: value}))
            for params, config in prefixes
            for i, value in enumerate(values)
        ]
    return [
        SweepCell(params, seed, _under(f"sweep.seeds.{i}", replace, config, seed=seed))
        for params, config in prefixes
        for i, seed in enumerate(seeds)
    ]


@dataclass(frozen=True)
class ExperimentFile:
    experiment: FederationConfig
    sweep: list[SweepCell] | None  # the sweep's checked cells, not yet run


# No schema nests past a handful of levels; PyYAML composes by recursion,
# so a deeper file is rejected before Python's recursion limit is reached.
_MAX_DEPTH = 100


class _Loader(yaml.SafeLoader):
    """PyYAML's YAML 1.1 float rule takes an exponent only after a dot and
    with a sign, so ``1e-3`` or ``json.dumps``'s ``1e-06`` would load as
    strings; this loader reads every exponent form as a float, and rejects
    nesting deeper than ``_MAX_DEPTH`` at the node that exceeds it."""

    depth = 0

    def compose_node(self, parent, index):
        if self.depth == _MAX_DEPTH:
            raise yaml.composer.ComposerError(
                None, None, f"nesting deeper than {_MAX_DEPTH} levels",
                self.peek_event().start_mark,
            )
        self.depth += 1
        node = super().compose_node(parent, index)
        self.depth -= 1
        return node


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _fail(node, message: str):
    mark = node.start_mark
    raise ConfigError(message, line=mark.line + 1, column=mark.column + 1)


def _node_at(node, key: str | None):
    """The node that the dotted key ``key`` (list indices included) names
    below ``node``.  A default is not in the file: its walk stops at the
    innermost mapping on the path, which it cannot leave, as no key repeats
    one of an enclosing mapping."""
    for part in key.split(".") if key else ():
        if isinstance(node, yaml.SequenceNode):
            node = node.value[int(part)]
        elif isinstance(node, yaml.MappingNode):
            node = next((v for k, v in node.value if k.value == part), node)
    return node


def _located(node, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its :class:`UsageError` reported at the node
    that its key names below ``node``."""
    try:
        return check(*args, **kwargs)
    except UsageError as exc:
        _fail(_node_at(node, exc.key), str(exc))


def _mapping_items(node, context: str) -> dict[str, tuple]:
    """Mapping node -> {key: (key_node, value_node)}; rejects duplicates."""
    if not isinstance(node, yaml.MappingNode):
        _fail(node, f"{context} must be a mapping")
    out = {}
    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            _fail(key_node, f"a key in {context} must be a scalar, got a {key_node.id}")
        key = str(key_node.value)
        if key in out:
            _fail(key_node, f"duplicate key {key!r} in {context}")
        out[key] = (key_node, value_node)
    return out


def _check_keys(items: dict, allowed, context: str) -> None:
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
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of too many digits
        _fail(node, f"malformed value: {exc}")


def _convert(value, tp):
    """``value`` as read from the file, converted by the annotation ``tp``:
    a list becomes a tuple, element by element, an enum value its member,
    and an ``int`` a ``float`` where a float is declared, never a bool.
    Anything else passes through unchanged, for the constructors to reject."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:  # ``T | None``
        return value if value is None else _convert(value, args[0])
    if typing.get_origin(tp) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, list) or not (variadic or len(value) == len(args)):
            return value
        elements = args[:1] * len(value) if variadic else args
        return tuple(_convert(v, t) for v, t in zip(value, elements))
    if issubclass(tp, enum.Enum):
        return next((m for m in tp if m.value == value), value)
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return value
    return value


def _dataclass(node, cls, name: str):
    """A mapping node as an instance of the config dataclass ``cls``; the
    top-level experiment has the empty ``name``."""
    context = name or "experiment"
    prefix = f"{name}." if name else ""
    items = _mapping_items(node, context)
    schema = _schema(cls)
    _check_keys(items, schema, context)
    kwargs = {}
    for key, (_, value_node) in items.items():
        f, tp = schema[key]
        kwargs[f.name] = (_dataclass(value_node, tp, prefix + key) if is_dataclass(tp)
                          else _convert(_value(value_node), tp))
    for key, (f, _) in schema.items():
        if f.name not in kwargs and f.default is MISSING:
            _fail(node, f"{context} is missing required key {key!r}")
    return _located(node, cls, **kwargs)


def _check_reads(node) -> None:
    """Reject each key of the experiment mapping ``node`` that its task kind
    does not read, before any value is checked; an unknown or repeated key
    is rejected first.  A missing or invalid kind is left for
    :class:`TaskSpec` to reject."""
    top = _mapping_items(node, "experiment")
    _check_keys(top, _schema(FederationConfig), "experiment")
    task = _mapping_items(top["task"][1], "task") if "task" in top else {}
    _check_keys(task, _schema(TaskSpec), "task")
    kind = FederationConfig.task.kind
    if "task" in top:
        kind = _convert(_value(task["kind"][1]), TaskKind) if "kind" in task else None
    if not isinstance(kind, TaskKind):
        return
    for cls, prefix, level in ((FederationConfig, "", top), (TaskSpec, "task.", task)):
        for key, (key_node, _) in level.items():
            _located(key_node, check_read, kind, prefix + key, _schema(cls)[key][0])


def _sweep(root, node, experiment: FederationConfig) -> list[SweepCell]:
    """The sweep section's cells.  Each grid key is looked up where it is
    written, as its values convert by its field's annotation."""
    items = _mapping_items(node, "sweep")
    _check_keys(items, {"grid", "seeds"}, "sweep")
    if "grid" not in items:
        _fail(node, "sweep requires a 'grid' mapping")
    grid, grid_node = {}, items["grid"][1]
    for key, (key_node, values_node) in _mapping_items(grid_node, "sweep grid").items():
        cls, _ = _located(key_node, grid_field, experiment, key)
        grid[key] = _convert(_value(values_node), tuple[_schema(cls)[key][1], ...])
    seeds = _convert(_value(items["seeds"][1]), tuple[int, ...]) if "seeds" in items else (0,)
    try:
        return sweep_cells(experiment, grid, seeds)
    except UsageError as exc:
        # A grid key's values are rejected under the bare key, which names
        # them inside the grid; every other key is a path from the top.
        start = root if exc.key.startswith("sweep.") else grid_node
        _fail(_node_at(start, exc.key), str(exc))


def _after(text: str) -> dict:
    """The line and column keywords just past ``text``, as PyYAML's marks count."""
    lines = re.split("\r\n|[\r\n\x85\u2028\u2029]", text.replace("\ufeff", ""))
    return {"line": len(lines), "column": len(lines[-1]) + 1}


def load_config(path, need_sweep: bool = False) -> ExperimentFile:
    """Parse and validate an experiment file; with ``need_sweep``, a file
    without a ``sweep`` section is an error located at its top level."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = f"byte {data[exc.start]:#04x} ({exc.reason})"
        message = f"config file is not valid UTF-8: {byte}"
        raise ConfigError(message, **_after(data[: exc.start].decode("utf-8")))
    # Composed as a file opened in text mode would be: universal newlines,
    # and the path in PyYAML's messages.
    stream = io.StringIO(text, newline=None)
    stream.name = str(path)
    try:
        root = yaml.compose(stream, Loader=_Loader)
    except yaml.reader.ReaderError as exc:  # an unprintable character
        raise ConfigError(str(exc), **_after(stream.getvalue()[: exc.position]))
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
    if need_sweep and "sweep" not in items:
        _fail(root, "sweep command requires a 'sweep' section in the config")
    node = items["experiment"][1]
    _check_reads(node)
    experiment = _dataclass(node, FederationConfig, "")
    sweep = _sweep(root, items["sweep"][1], experiment) if "sweep" in items else None
    return ExperimentFile(experiment=experiment, sweep=sweep)


def config_to_dict(config: FederationConfig) -> dict:
    """The config as plain JSON-serializable data under its file keys, in
    field order, holding only the keys its task kind reads: under
    ``experiment``, :func:`load_config` reads it back as an equal config."""

    def plain(value):
        if is_dataclass(value):
            return {
                key: plain(getattr(value, f.name))
                for key, (f, _) in _schema(type(value)).items()
                if reads(config.task.kind, f)
            }
        if isinstance(value, enum.Enum):
            return value.value
        return list(value) if isinstance(value, tuple) else value

    return plain(config)
