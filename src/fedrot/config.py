"""Experiment-file parsing.

The on-disk dialect is YAML: an ``experiment`` mapping that corresponds
field-for-field to :class:`~fedrot.federation.FederationConfig` (with
nested ``reference`` and ``task`` mappings), plus an optional ``sweep``
mapping holding a parameter ``grid`` and a ``seeds`` list.  The dataclass
fields are the schema: their annotations type each value, the fields
without a default are required, and their metadata names the file keys
that differ from the field names, the keys a grid may vary and the task
kinds that read a key.  Unknown keys, keys the task kind does not read, and
ill-typed or out-of-range values are rejected with their line and column.
"""

from __future__ import annotations

import enum
import functools
import io
import re
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

import yaml

from .errors import ConfigError, UsageError, check_type, file_key, type_hints
from .federation import (
    FederationConfig, TaskSpec, apply_overrides, check_read, grid_field
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
    """``check(*args, **kwargs)``, its :class:`UsageError` reported at ``node``."""
    try:
        return check(*args, **kwargs)
    except UsageError as exc:
        _fail(node, str(exc))


def _child(node, key: str):
    """The value node at index ``key`` of a sequence node, or under ``key``
    of a mapping node; the mapping itself if it lacks the key."""
    if isinstance(node, yaml.SequenceNode):
        return node.value[int(key)]
    return next((v for k, v in node.value if k.value == key), node)


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
    except yaml.YAMLError as exc:
        _fail(node, f"malformed value: {exc}")


@functools.cache
def _schema(cls) -> dict[str, tuple]:
    """File key -> (field, resolved annotation) of a config dataclass."""
    hints = type_hints(cls)
    return {file_key(f): (f, hints[f.name]) for f in fields(cls)}


def _typed(node, tp, name: str):
    """The value of ``node`` as the annotated type ``tp``; ``name`` is its
    key path in messages."""
    if is_dataclass(tp):
        return _dataclass(node, tp, name)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:  # ``T | None``
        return None if _value(node) is None else _typed(node, args[0], name)
    if typing.get_origin(tp) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(node, yaml.SequenceNode) or not (
            variadic or len(node.value) == len(args)
        ):
            size = "" if variadic else f" of {len(args)} values"
            _fail(node, f"{name} must be a list{size}")
        elements = args[:1] * len(node.value) if variadic else args
        return tuple(
            _typed(n, t, f"{name}[{i}]")
            for i, (n, t) in enumerate(zip(node.value, elements))
        )
    raw = _value(node)
    if issubclass(tp, enum.Enum):
        try:
            return tp(raw)
        except ValueError:
            _fail(
                node,
                f"invalid {name} {raw!r} (one of: {', '.join(m.value for m in tp)})",
            )
    _located(node, check_type, name, raw, tp)
    try:
        return tp(raw)
    except OverflowError:
        _fail(node, f"{name} is out of range, got {raw!r}")


def _dataclass(node, cls, name: str):
    """A mapping node as an instance of the config dataclass ``cls``; the
    top-level experiment has the empty ``name``."""
    context = name or "experiment"
    prefix = f"{name}." if name else ""
    items = _mapping_items(node, context)
    schema = _schema(cls)
    _check_keys(items, schema, context)
    kwargs = {
        schema[key][0].name: _typed(value_node, schema[key][1], prefix + key)
        for key, (_, value_node) in items.items()
    }
    for key, (f, _) in schema.items():
        if f.name not in kwargs and f.default is MISSING:
            _fail(node, f"{context} is missing required key {key!r}")
    try:
        return cls(**kwargs)
    except UsageError as exc:
        # A rejected value is located at the node its dotted key path (list
        # indices included) names.  A default is not in the file, so it falls
        # back to the innermost mapping on the path; no key on a path repeats
        # a key of an enclosing mapping, so the walk cannot step off the path.
        for key in exc.key.split(".") if exc.key else ():
            node = _child(node, key)
        _fail(node, str(exc))


def _sweep(node, experiment: FederationConfig) -> SweepSpec:
    items = _mapping_items(node, "sweep")
    _check_keys(items, {"grid", "seeds"}, "sweep")
    if "grid" not in items:
        _fail(node, "sweep requires a 'grid' mapping")
    grid = {}
    for key, (key_node, values) in _mapping_items(items["grid"][1], "sweep grid").items():
        cls, _ = _located(key_node, grid_field, experiment, key)
        if not isinstance(values, yaml.SequenceNode) or not values.value:
            _fail(values, f"sweep parameter {key!r} must be a non-empty list")
        grid[key] = []
        for value_node in values.value:
            value = _typed(value_node, _schema(cls)[key][1], key)
            _located(value_node, apply_overrides, experiment, {key: value})
            grid[key].append(value)
    if not grid:
        _fail(items["grid"][1], "sweep grid must contain at least one parameter")
    seeds = (0,)
    if "seeds" in items:
        seeds_node = items["seeds"][1]
        seeds = _typed(seeds_node, tuple[int, ...], "sweep.seeds")
        if not seeds:
            _fail(seeds_node, "sweep.seeds must be a non-empty list")
        for seed, seed_node in zip(seeds, seeds_node.value):
            _located(seed_node, replace, experiment, seed=seed)
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
    sweep = _sweep(items["sweep"][1], experiment) if "sweep" in items else None
    return ExperimentFile(experiment=experiment, sweep=sweep)


def config_to_dict(config) -> dict:
    """A config dataclass as plain JSON-serializable data under its file
    keys, in field order."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[file_key(f)] = value
    return out
