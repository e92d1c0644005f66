"""The experiment schema: the config dataclasses, their rules, and the
experiment-file loader.

The on-disk dialect is YAML: an ``experiment`` mapping that corresponds
field-for-field to :class:`FederationConfig` (with nested ``reference``
and ``task`` mappings), plus an optional ``sweep`` mapping holding a
parameter ``grid`` and a ``seeds`` list.  The dataclass fields are the
schema: their annotations type each value, the fields without a default
are required, and their metadata names the file keys that differ from the
field names, the keys a grid may vary and the task kinds that read a key.
The loader only reads values; the config constructors convert and check
each one by its annotation, for :func:`sweep_cells` too.  Every rejection, a bad key's included, is
reported with its line and column, and a key that is unknown, repeated or
not read by the task kind before any value.
"""

from __future__ import annotations

import enum
import functools
import io
import math
import numbers
import operator
import re
import reprlib
import types
import typing
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass, replace

import yaml

from .aggregation import Strategy
from .alignment import ReferenceKind, ScheduleAblation
from .errors import ConfigError, UsageError
from .tasks import TaskKind, data_footprint

__all__ = [
    "MAX_FOOTPRINT", "ReferenceMode", "TaskSpec", "FederationConfig", "SweepCell",
    "ExperimentFile", "sweep_cells", "load_config", "config_to_dict",
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

# Rejected values are shown shortened: a YAML alias can repeat a node exponentially.
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxstring, _SHORT.maxother = 2, 40, 40


def check_fields(config, prefix: str = "") -> None:
    """Store each field of the config dataclass ``config`` as its annotated
    type and then check its ``range``, under its file key after ``prefix``."""
    for key, (f, tp) in _schema(type(config)).items():
        key = prefix + key
        value = _typed(key, getattr(config, f.name), tp)
        object.__setattr__(config, f.name, value)  # the classes are frozen
        if "range" in f.metadata and value is not None:
            low, high = f.metadata["range"]
            if not low <= value <= high:
                bound = f"be >= {low}" if high == math.inf else f"lie in [{low}, {high}]"
                raise UsageError(f"{key} must {bound}, got {value}", key=key)


def _typed(key: str, value, tp):
    """``value``, set as the file key ``key``, as the annotated type ``tp``:
    a list or tuple of the right length becomes a tuple, element by element,
    an enum member's value that member and an ``int`` a ``float`` where a
    float is declared; a value of its type, or a tuple of such, is returned
    itself.  Any other value is rejected: ``int`` takes any ``Integral``,
    ``float`` any ``Real`` that is finite as a float, a bool neither, and
    any other type its instances; an enum's message lists its values."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:  # ``T | None``
        return value if value is None else _typed(key, value, args[0])
    if typing.get_origin(tp) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(args)):
            size = "" if variadic else f" of {len(args)} values"
            raise UsageError(f"{key} must be a tuple{size}, got {_SHORT.repr(value)}", key=key)
        elements = args[:1] * len(value) if variadic else args
        typed = tuple(_typed(f"{key}.{i}", v, t) for i, (v, t) in enumerate(zip(value, elements)))
        kept = isinstance(value, tuple) and all(map(operator.is_, typed, value))
        return value if kept else typed
    kind, what = _NUMBERS.get(tp, (tp, f"a {tp.__name__}"))
    if issubclass(tp, enum.Enum):
        what += f" (one of: {', '.join(m.value for m in tp)})"
        if isinstance(value, str):  # the config enums' values are strings
            value = next((m for m in tp if m.value == value), value)
    if not isinstance(value, kind) or (tp in _NUMBERS and isinstance(value, bool)):
        raise UsageError(f"{key} must be {what}, got {_SHORT.repr(value)}", key=key)
    if tp is float:
        try:
            value = float(value) if type(value) is int else value
            finite = math.isfinite(value)
        except OverflowError:
            raise UsageError(f"{key} is out of range", key=key) from None
        if not finite:
            raise UsageError(f"{key} must be finite, got {value}", key=key)
    if is_dataclass(tp):
        check_fields(value, f"{key}.")
    return value


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
    targets: tuple[float, ...] = field(default=(0.5, 1.0, 1.5), metadata=_SCALAR)
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
        if (footprint := self.footprint()) > MAX_FOOTPRINT:
            sizes = {"n_clients": self.n_clients, "dims.0": self.dims[0], "dims.1": self.dims[1],
                     "rounds": self.rounds, "task.n_samples": task.n_samples}
            key = max(sizes, key=sizes.get)  # the largest size
            raise UsageError(
                f"{key} is too large: the run would hold {footprint} float64 entries, "
                f"more than the {MAX_FOOTPRINT} (2 GiB) a run may hold",
                key=key,
            )

    def footprint(self) -> int:
        """The float64 entries the run holds at its peak: two products per
        client, four transient d_out x d_in arrays at the server and in the
        loss, the adapter history and the task's data; in Python integers."""
        d_out, d_in = self.dims
        return ((2 * self.n_clients + 4) * d_out * d_in
                + (self.rounds + 1) * (d_out + d_in) * self.rank
                + data_footprint(self))


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


@dataclass(eq=False)
class SweepCell:
    """One grid point under one seed; the seed is read from its config."""

    params: dict
    config: FederationConfig  # the base config with params and seed applied
    result: RunResult | None = None  # ``federation.RunResult``, diverged runs included
    error: str | None = None  # why the cell failed, divergence included

    @property
    def seed(self) -> int:
        return self.config.seed


def _under(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its :class:`UsageError` raised again under ``key``."""
    try:
        return build(*args, **kwargs)
    except UsageError as exc:
        raise UsageError(str(exc), key=key) from exc


def sweep_cells(base: FederationConfig, grid: dict, seeds) -> list[SweepCell]:
    """The cells of the ``grid`` x ``seeds`` product, in ``itertools.product``
    order, each with its finished, and so checked, config, which holds the
    cell's seed.  A key that :func:`grid_field` rejects, or one without a
    non-empty list of values, raises under ``sweep.grid.<key>``, a value
    under ``sweep.grid.<key>.<i>`` and a seed under ``sweep.seeds.<i>``."""
    if not grid:
        raise UsageError("sweep grid must contain at least one parameter", key="sweep.grid")
    fields_of = {}  # grid key -> the (dataclass, field) it varies
    for key, values in grid.items():
        fields_of[key] = _under(f"sweep.grid.{key}", grid_field, base, key)
        if not isinstance(values, (list, tuple)) or not values:
            raise UsageError(f"sweep parameter {key!r} must be a non-empty list",
                             key=f"sweep.grid.{key}")
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise UsageError("sweep.seeds must be a non-empty list", key="sweep.seeds")
    # One axis at a time, each value applied to every prefix config, a
    # TaskSpec field's on its task: the product order, with a rejected value
    # blamed on the axis that adds it.
    configs = [base]
    for key, values in grid.items():
        cls, f = fields_of[key]
        configs = [
            _under(f"sweep.grid.{key}.{i}", replace, config,
                   **({"task": replace(config.task, **{f.name: value})} if cls is TaskSpec
                      else {f.name: value}))
            for config in configs
            for i, value in enumerate(values)
        ]
    # A cell's params are read back from its config, so they hold its typed values.
    return [
        SweepCell({key: getattr(config.task if cls is TaskSpec else config, f.name)
                   for key, (cls, f) in fields_of.items()},
                  _under(f"sweep.seeds.{i}", replace, config, seed=seed))
        for config in configs
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


def _mapping_items(node, context: str, allowed=None) -> dict[str, tuple]:
    """Mapping node -> {key: (key_node, value_node)}; rejects a non-scalar
    or repeated key, then a key not in ``allowed``, if given."""
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
    for key, (key_node, _) in out.items():
        if allowed is not None and key not in allowed:
            _fail(key_node, f"unknown key {key!r} in {context} "
                            f"(allowed: {', '.join(sorted(allowed))})")
    return out


def _value(node):
    loader = yaml.SafeLoader("")
    try:
        return loader.construct_object(node, deep=True)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of too many digits
        _fail(node, f"malformed value: {exc}")


def _experiment(node) -> FederationConfig:
    """The experiment mapping ``node`` as a config.  Every key of it and of
    its nested mappings is checked before any value is read: a non-scalar,
    repeated or unknown key, then one that the task kind does not read.  A
    missing or invalid kind is left for :class:`TaskSpec` to reject."""
    schema = _schema(FederationConfig)
    top = _mapping_items(node, "experiment", schema)
    levels = {"": (FederationConfig, node, top)}  # key prefix -> (dataclass, node, items)
    for key, (_, value_node) in top.items():
        if is_dataclass(cls := schema[key][1]):
            levels[f"{key}."] = cls, value_node, _mapping_items(value_node, key, _schema(cls))
    kind = FederationConfig.task.kind
    if "task." in levels:
        task = levels["task."][2]
        value = _value(task["kind"][1]) if "kind" in task else None
        kind = next((m for m in TaskKind if m.value == value), None)
    if kind is not None:
        for prefix, (cls, _, items) in levels.items():
            for key, (key_node, _) in items.items():
                _located(key_node, check_read, kind, prefix + key, _schema(cls)[key][0])

    def build(prefix: str):
        # Values are read in file order, a nested config built at its key.
        cls, mapping, items = levels[prefix]
        kwargs = {}
        for key, (_, value_node) in items.items():
            f, tp = _schema(cls)[key]
            kwargs[f.name] = build(f"{prefix}{key}.") if is_dataclass(tp) else _value(value_node)
        for key, (f, _) in _schema(cls).items():
            if f.name not in kwargs and f.default is MISSING:
                _fail(mapping, f"{prefix[:-1] or 'experiment'} is missing required key {key!r}")
        return _located(mapping, cls, **kwargs)

    return build("")


def _sweep(root, node, experiment: FederationConfig) -> list[SweepCell]:
    """The sweep section's cells.  Each grid key is looked up where it is
    written, before its values are read."""
    items = _mapping_items(node, "sweep", {"grid", "seeds"})
    if "grid" not in items:
        _fail(node, "sweep requires a 'grid' mapping")
    grid, grid_node = {}, items["grid"][1]
    for key, (key_node, values_node) in _mapping_items(grid_node, "sweep grid").items():
        _located(key_node, grid_field, experiment, key)
        grid[key] = _value(values_node)
    seeds = _value(items["seeds"][1]) if "seeds" in items else (0,)
    return _located(root, sweep_cells, experiment, grid, seeds)


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
        raise ConfigError("config file is empty", **_after(text))
    items = _mapping_items(root, "config file", {"experiment", "sweep"})
    if "experiment" not in items:
        _fail(root, "config file requires an 'experiment' section")
    if need_sweep and "sweep" not in items:
        _fail(root, "sweep command requires a 'sweep' section in the config")
    experiment = _experiment(items["experiment"][1])
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
