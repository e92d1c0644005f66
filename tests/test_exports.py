import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import fedrot


def test_every_exported_name_resolves():
    modules = [fedrot] + [
        importlib.import_module(f"fedrot.{info.name}")
        for info in pkgutil.iter_modules(fedrot.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def load_tracing():
    """``benchmark/tracing.py``, loaded by path: it is not a package."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # The benchmark's tracer wraps these by name; a renamed or re-shaped
    # layer would otherwise show only as a benchmark run that is not correct.
    tracing = load_tracing()
    unresolved = [
        name for name, (module, attr) in tracing.LAYER_FUNCTIONS.items()
        if not inspect.isfunction(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
    tasks = importlib.import_module("fedrot.tasks")
    undefined = [
        name for name, method in tracing.TASK_METHODS.items()
        if not any(inspect.isclass(c) and method in vars(c) for c in vars(tasks).values())
    ]
    assert undefined == []
    # ``CellSpans.timed_cell`` wraps ``_run_cell`` with one positional argument.
    params = inspect.signature(importlib.import_module("fedrot.federation")._run_cell).parameters
    kinds = [p.kind for p in params.values()]
    assert len(kinds) == 1 and kinds[0] in (inspect.Parameter.POSITIONAL_ONLY,
                                            inspect.Parameter.POSITIONAL_OR_KEYWORD)
