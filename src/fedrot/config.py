"""Experiment-file parsing.

The on-disk dialect is YAML: an ``experiment`` mapping that corresponds
field-for-field to :class:`~fedrot.federation.FederationConfig` (with
nested ``reference`` and ``task`` mappings), plus an optional ``sweep``
mapping holding a parameter ``grid`` and a ``seeds`` list.  The dataclass
fields are the schema: their annotations type each value, the fields
without a default are required, and their metadata names the file keys
that differ from the field names, the keys a grid may vary and the task
kinds that read a key.  The loader only converts values by annotation; the
config constructors and ``federation.sweep_cells`` check them.  Every
rejection, a bad key's included, is reported with its line and column.
"""

from __future__ import annotations

import enum
import functools
import io
import re
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass

import yaml

from .errors import ConfigError, UsageError, file_key, type_hints
from .federation import (
    FederationConfig, TaskSpec, check_read, grid_field, grid_values, reads, sweep_cells
)

__all__ = ["SweepSpec", "ExperimentFile", "load_config", "config_to_dict"]


@dataclass(frozen=True)
class SweepSpec:
    grid: dict[str, list]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentFile:
    experiment: FederationConfig
    sweep: SweepSpec | None


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


def _mark(node) -> tuple[int, int]:
    mark = node.start_mark
    return mark.line + 1, mark.column + 1


def _fail(node, message: str):
    line, column = _mark(node)
    raise ConfigError(message, line=line, column=column)


def _located(node, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its :class:`UsageError` reported at the node
    that its dotted key (list indices included) names below ``node``.  A
    default is not in the file: its walk stops at the innermost mapping on the
    path, which it cannot leave, as no key repeats one of an enclosing mapping."""
    try:
        return check(*args, **kwargs)
    except UsageError as exc:
        for key in exc.key.split(".") if exc.key else ():
            if isinstance(node, yaml.SequenceNode):
                node = node.value[int(key)]
            elif isinstance(node, yaml.MappingNode):
                node = next((v for k, v in node.value if k.value == key), node)
        _fail(node, str(exc))


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


@functools.cache
def _schema(cls) -> dict[str, tuple]:
    """File key -> (field, resolved annotation) of a config dataclass."""
    hints = type_hints(cls)
    return {file_key(f): (f, hints[f.name]) for f in fields(cls)}


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


def _sweep(root, node, experiment: FederationConfig) -> SweepSpec:
    items = _mapping_items(node, "sweep")
    _check_keys(items, {"grid", "seeds"}, "sweep")
    if "grid" not in items:
        _fail(node, "sweep requires a 'grid' mapping")
    grid, grid_node = {}, items["grid"][1]
    for key, (key_node, values_node) in _mapping_items(grid_node, "sweep grid").items():
        cls, _ = _located(key_node, grid_field, experiment, key)
        values = _value(values_node)
        _located(grid_node, grid_values, key, values)
        grid[key] = [_convert(v, _schema(cls)[key][1]) for v in values]
    seeds = _convert(_value(items["seeds"][1]), tuple[int, ...]) if "seeds" in items else (0,)
    _located(root, sweep_cells, experiment, grid, seeds)
    return SweepSpec(grid=grid, seeds=seeds)


def _after(text: str) -> dict:
    """The line and column just past ``text``, as :class:`ConfigError` keywords."""
    return {"line": text.count("\n") + 1, "column": len(text) - text.rfind("\n")}


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
    experiment = _dataclass(node, FederationConfig, "")
    # Once every value is valid, each key must be one the task kind reads.
    top = _mapping_items(node, "experiment")
    task = _mapping_items(top["task"][1], "task") if "task" in top else {}
    for cls, prefix, level in ((FederationConfig, "", top), (TaskSpec, "task.", task)):
        for key, (key_node, _) in level.items():
            f = _schema(cls)[key][0]
            _located(key_node, check_read, experiment.task.kind, prefix + key, f)
    sweep = _sweep(root, items["sweep"][1], experiment) if "sweep" in items else None
    return ExperimentFile(experiment=experiment, sweep=sweep)


def config_to_dict(config: FederationConfig) -> dict:
    """The config as plain JSON-serializable data under its file keys, in
    field order, holding only the keys its task kind reads: under
    ``experiment``, :func:`load_config` reads it back as an equal config."""

    def plain(value):
        if is_dataclass(value):
            return {
                file_key(f): plain(getattr(value, f.name))
                for f in fields(value)
                if reads(config.task.kind, f)
            }
        if isinstance(value, enum.Enum):
            return value.value
        return list(value) if isinstance(value, tuple) else value

    return plain(config)
