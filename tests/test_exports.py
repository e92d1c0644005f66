import importlib
import pkgutil

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
